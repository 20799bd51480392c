"""Runnable invariant suites and finite-difference oracles.

Every residual the library's identities promise is checked here against an
explicit threshold, per surface: frame/transverse defining equations,
Hermitian positivity, determinant reality, metric compatibility of the
connection, the traced Gauss identity through two independent routes, the
trace inequalities, conformal-change agreement, quadrature convergence, and
first/second symbolic derivatives against Richardson-extrapolated central
finite differences on the real jet (steps 1e-3 and 5e-4).  The chain-rule
frame derivatives Z_gamma h_{beta mubar} are checked against the same finite
differences of the numeric Levi matrix, each point's frame held at its own w,
the connection's Reeb slot against those of the solved transverse field, and
the Hessian (log J)_{j kbar} against second differences of log(-det B).
Each oracle evaluates its whole stencil as one batch: ``fd_wirtinger`` makes
one call of its function for both steps and every coordinate, and
``max_fd_mismatch`` one program for the exact derivatives of a list and one
for its stencil.  ``fd_loghess`` alone evaluates its two steps apart, which
keeps its 16 m^2 shifts per point out of one allocation.

``run_suites`` powers the CLI ``check`` subcommand; each result carries the
residual actually measured so report consumers can re-threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbolic as sym
from .gallery import SurfaceSpec
from .hypersurface import (
    _conformal_batch,
    _connection_batch,
    _frame_batch,
    _frame_coeffs,
    _frame_levi_derivs,
    _levi_form,
    _levi_rounding_scale,
    _loghess_ambient,
    _ricci_batch,
    _transverse_batch,
    eval_arrays,
    fefferman_det,
    HypersurfaceChart,
)
from .immersion import _gauss_form, _levi_norm2, _mixed_sff_batch, _sff_batch
from .quadrature import RadialChart, integrate, product_grid, quasi_monte_carlo
from .spectral import PluriharmonicFunction, _boxb_batch, _energy_density_batch

FD_STEP = 1e-3


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool

    @staticmethod
    def from_residual(name, residual, threshold):
        residual = float(residual)
        return CheckResult(name, residual, threshold, bool(residual < threshold))

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: residual {self.residual:.3e} (threshold {self.threshold:.1e})"


# ---- finite-difference oracles ------------------------------------------------


def fd_wirtinger(f, P):
    """(d/dz, d/dzbar) of a batch callable, the coordinate index on a trailing axis,
    from central differences along Re z_j and Im z_j, Richardson-extrapolated as
    (4 D(h/2) - D(h)) / 3 at h = FD_STEP.  The whole stencil (both steps, +-Re and
    +-Im of every coordinate, the point index fastest) is one call of ``f``."""
    K, m = P.shape
    steps = (FD_STEP / 2, FD_STEP)
    e = np.array([h * np.eye(m, dtype=complex) for h in steps])  # e[s, j]: step s along z_j
    shifts = np.stack([e, -e, 1j * e, -(1j * e)], axis=1)  # P + -(1j e) is P - 1j e, signed zeros included
    vals = f((P + shifts[:, :, :, None, :]).reshape(-1, m))
    vals = vals.reshape((2, 4, m, K) + vals.shape[1:])
    central = [(vals[s, ::2] - vals[s, 1::2]) / (2 * h) for s, h in enumerate(steps)]
    dx, dy = (4 * central[0] - central[1]) / 3
    return np.moveaxis(0.5 * (dx - 1j * dy), 0, -1), np.moveaxis(0.5 * (dx + 1j * dy), 0, -1)


def max_fd_mismatch(exprs, P: np.ndarray) -> float:
    """Worst relative gap between the symbolic first derivatives (barred and
    unbarred) of a list of expressions and their finite differences at the
    points P: one program for the derivatives and one for the stencil."""
    m = P.shape[1]
    exact = eval_arrays([[[[sym.differentiate(e, j, bar) for j in range(m)] for bar in (False, True)]
                          for e in exprs]], P)[0]
    fd = np.stack(fd_wirtinger(lambda Q: eval_arrays([exprs], Q)[0], P), axis=2)
    return float(np.max(np.abs(exact - fd) / (1.0 + np.abs(exact))))


def random_exprs(rng, m, count=12):
    """Random expression trees over m variables, safe to evaluate anywhere
    in the zero-test sampling box (poles are kept positive-definite)."""
    out = []

    def build(d):
        if d == 0 or rng.random() < 0.25:
            if rng.random() < 0.3:
                return sym.const(complex(rng.normal(), rng.normal()))
            return sym.var(int(rng.integers(m)), bool(rng.integers(2)))
        op = rng.integers(6)
        if op == 0:
            return sym.add(build(d - 1), build(d - 1))
        if op == 1:
            return sym.mul(build(d - 1), build(d - 1))
        if op == 2:
            return sym.neg(build(d - 1))
        if op == 3:
            return sym.intpow(build(d - 1), int(rng.integers(2, 4)))
        if op == 4:
            return sym.recip(sym.add(sym.const(0.5), sym.abs2(build(d - 1))))
        return sym.log(sym.add(sym.const(1), sym.abs2(build(d - 1))))

    for _ in range(count):
        out.append(build(3))
    return out


def random_pluriharmonic(rng, m, degree=3):
    """Random Re(holomorphic polynomial), an always-valid ambient extension."""
    g = sym.const(0)
    for _ in range(degree):
        coef = sym.const(complex(rng.normal(), rng.normal()))
        mono = coef
        for _ in range(int(rng.integers(1, 3))):
            mono = sym.mul(mono, sym.var(int(rng.integers(m))))
        g = sym.add(g, mono)
    return sym.re(g)


# ---- symbolic-engine suite -----------------------------------------------------


def symcore_suite(seed=0):
    rng = np.random.default_rng(seed)
    m = 3
    exprs = random_exprs(rng, m)
    P = sym._random_coords(rng, m, 50)

    pairs, fd_exprs = [], []
    for e in exprs:
        j, k = int(rng.integers(m)), int(rng.integers(m))
        pairs.append((sym.differentiate(sym.differentiate(e, j, False), k, True),
                      sym.differentiate(sym.differentiate(e, k, True), j, False),
                      sym.differentiate(sym.conj(e), j, False),
                      sym.differentiate(e, j, True)))
        fd_exprs += [e] + [sym.differentiate(e, j2, False) for j2 in sym.free_indices(e)]
    va, vb, vdc, vd = eval_arrays(list(zip(*pairs)), P)
    worst_mixed = np.max(np.abs(va - vb))
    worst_conj = np.max(np.abs(vdc - np.conj(vd)))
    worst_fd = max_fd_mismatch(fd_exprs, P[:10])

    return [
        CheckResult.from_residual("symbolic.mixed-partial-symmetry", worst_mixed, 1e-9),
        CheckResult.from_residual("symbolic.conjugation-covariance", worst_conj, 1e-12),
        CheckResult.from_residual("symbolic.derivative-vs-fd", worst_fd, 1e-6),
    ]


# ---- per-surface suites ---------------------------------------------------------


def _rel_eigs(L, h):
    """Eigenvalues of the Hermitian form L relative to the metric h."""
    c = np.linalg.cholesky(h)
    cinv = np.linalg.inv(c)
    M = cinv @ L @ np.conj(np.swapaxes(cinv, -1, -2))
    return np.linalg.eigvalsh(M)


def _reselection_spreads(grad, build, count):
    """Largest change of each of ``count`` quantities, ``build(w)`` on the first
    10 points, over the frames at every w where those points keep |rho_w| >= 1e-6."""
    base, spreads = None, np.zeros(count)
    for w in range(grad.shape[1]):
        if np.min(np.abs(grad[:10, w])) < 1e-6:
            continue
        vals = build(w)
        base = vals if base is None else base
        # np.maximum keeps a NaN change, so a broken frame cannot pass as spread 0
        spreads = np.maximum(spreads, [np.max(np.abs(v - b)) for v, b in zip(vals, base)])
    return spreads


def hypersurface_suite(surface: SurfaceSpec, seed=0):
    chart = surface.chart
    rng = np.random.default_rng(seed)
    P = surface.random_points(100, seed=seed)
    out = []

    fb = _frame_batch(chart, P)
    grad, hess = fb.grad, fb.hess
    res_pair = np.abs(np.einsum("kj,kj->k", grad, fb.xi) - 1.0)
    res_eig = np.abs(
        np.einsum("kjl,kj->kl", hess, fb.xi) - fb.r[:, None] * np.conj(grad)
    )
    out.append(CheckResult.from_residual(
        "frame.xi-defining-equations", max(np.max(res_pair), np.max(res_eig)), 1e-9))

    # the Hermitian gap of Zc H Zc^* on the scale of the frame batch's own gate
    raw = _levi_form(fb.Zc, hess)
    herm = np.abs(raw - np.conj(np.swapaxes(raw, 1, 2))).max(axis=(1, 2)) / _levi_rounding_scale(fb.Zc, hess)
    out.append(CheckResult.from_residual("frame.levi-hermitian", np.max(herm), 1e-12))
    out.append(CheckResult("frame.levi-positive", float(np.min(fb.heigs)), 1e-10,
                           bool(np.min(fb.heigs) > 1e-10)))
    out.append(CheckResult("frame.J-positive", float(np.min(fb.J)), 0.0, bool(np.min(fb.J) > 0)))

    r2 = np.einsum("kjl,kj,kl->k", hess, fb.xi, np.conj(fb.xi))
    out.append(CheckResult.from_residual(
        "frame.r-consistency", np.max(np.abs(r2 - fb.r)), 1e-9))

    # closed form r = 1/(rho^{j kbar} rho_j rho_kbar) where the Hessian inverts
    cond = np.linalg.cond(hess)
    ok = cond < 1e8
    if np.any(ok):
        rcf = 1.0 / np.einsum("kj,kjl,kl->k", np.conj(grad[ok]), np.linalg.inv(hess[ok]), grad[ok])
        out.append(CheckResult.from_residual(
            "frame.r-closed-form", np.max(np.abs(rcf - fb.r[ok])), 1e-9))

    # frame independence of r, J, scalar R, and the (L, h)-eigenvalues
    def reselected(w):
        fbw = _frame_batch(chart, P[:10], w_index=w)
        _, R, L = _ricci_batch(chart, fbw)
        return fbw.r, fbw.J, R, np.sort(_rel_eigs(L, fbw.h), axis=1)

    spread = np.max(_reselection_spreads(fb.grad, reselected, 4))
    out.append(CheckResult.from_residual("frame.w-independence", spread, 1e-8))

    # restricted log-determinant Hessian: PSD for squared-norm surfaces
    if surface.immersion is not None:
        _, _, L = _ricci_batch(chart, fb)
        low = float(np.min(_rel_eigs(L, fb.h)))
        out.append(CheckResult("loghess.positive-semidefinite", low, -1e-9, bool(low > -1e-9)))

    # metric compatibility of the connection coefficients
    res = _metric_compatibility(chart, fb.subset(slice(25)))
    out.append(CheckResult.from_residual("connection.metric-compatibility", res, 1e-8))

    # conformal change: formula route vs direct transverse solve on e^sigma rho
    res = _conformal_tworoute(surface, rng, fb.subset(slice(20)))
    out.append(CheckResult.from_residual("conformal.two-route", res, 1e-8))

    # symbolic jets and chain-rule frame derivatives against finite differences
    out.append(CheckResult.from_residual(
        "fd.first-and-second-jets", _fd_suite(surface, fb.subset(slice(50))), 1e-6))
    return out


def _metric_compatibility(chart, fb):
    n = chart.n
    omega = _connection_batch(chart, fb)
    lhs = _frame_levi_derivs(chart, fb)
    t1 = np.einsum("kbsg,ksm->kgbm", omega[:, :, :, :n], fb.h)
    t2 = np.einsum("kmsg,kbs->kgbm", np.conj(omega[:, :, :, n : 2 * n]), fb.h)
    return float(np.max(np.abs(lhs - t1 - t2)))


def _conformal_tworoute(surface, rng, fb):
    chart = surface.chart
    candidates = [sym.const(0.35)]
    if surface.sigma is not None:
        candidates.append(surface.sigma)
    q = random_pluriharmonic(rng, chart.m, degree=2)
    positive = sym.add(sym.const(1.0), sym.mul(sym.const(0.1), sym.abs2(q)))
    candidates.append(sym.log(positive))
    worst = 0.0
    for sigma in candidates:
        rhat = _conformal_batch(chart, sigma, fb)
        efac = None
        if sigma.op == "log":
            efac = sigma.args[0]
        elif sigma.op == "const":
            efac = sym.const(np.exp(sigma.payload))
        if efac is None:
            continue
        hat_chart = HypersurfaceChart(sym.mul(efac, chart.rho), chart.m)
        r2 = -_transverse_batch(*eval_arrays([hat_chart.jets("h"), hat_chart.jets("hb")], fb.P))[:, 0, 0]
        worst = np.maximum(worst, np.max(np.abs(rhat - np.real(r2))))
    return worst


def _fd_suite(surface: SurfaceSpec, fb):
    """Worst FD mismatch of the symbolic jets, the chain-rule frame derivatives,
    the connection's Reeb slot and the log J Hessian at the points of a frame batch."""
    chart, m = surface.chart, surface.dim
    exprs = [chart.rho, *sym.jets(chart.rho, m, "h"), *(e for row in sym.jets(chart.rho, m, "hb") for e in row)]
    if surface.immersion is not None:
        F = surface.immersion.F
        exprs += F + [e for row in sym.jets(F, m, "h") for e in row]
    exprs += [f.ftilde for f in surface.plurifamily]
    worst = max_fd_mismatch(exprs, fb.P)
    for s, fd in [(_frame_levi_derivs(chart, fb), fd_frame_levi_derivs(chart, fb)),
                  (_connection_batch(chart, fb)[..., -1], fd_reeb_slot(chart, fb)),
                  (_loghess_ambient(chart, fb), fd_loghess(chart, fb.P))]:
        worst = np.maximum(worst, np.max(np.abs(s - fd) / (1.0 + np.abs(s))))
    return float(worst)


def fd_loghess(chart, P):
    """(K, j, k) array of (log J)_{j kbar} from finite differences of log(-det B): the
    mean of conj(c) u log J(P + h c e_j + h u e_k) / h^2 over c, u in {1, i, -1, -i},
    Richardson-extrapolated like ``fd_wirtinger``, with all shifted points in one batch."""
    K, m = P.shape
    roots = np.array([1, 1j, -1, -1j])
    steps = roots[:, None, None, None, None] * np.eye(m)[:, None, :] + roots[:, None, None, None] * np.eye(m)

    def mixed(h):
        log_J = np.log(fefferman_det(chart, (P[:, None, None, None, None] + h * steps).reshape(-1, m)))
        return np.einsum("c,u,kcujl->kjl", np.conj(roots), roots, log_J.reshape(K, 4, 4, m, m)) / (16 * h * h)

    return (4 * mixed(FD_STEP / 2) - mixed(FD_STEP)) / 3


def fd_frame_levi_derivs(chart, fb):
    """(K, gamma, beta, mu) array of Z_gamma h_{beta mubar} from finite
    differences of the numeric Levi matrix Zc rho'' Zc^*, with each point's
    frame held at its own w."""

    def levi(Q):
        grad, hess = eval_arrays([chart.jets("h"), chart.jets("hb")], Q)
        return _levi_form(_frame_coeffs(grad, np.tile(fb.w, len(Q) // len(fb.w)))[1], hess)

    dh = fd_wirtinger(levi, fb.P)[0]
    return np.einsum("kgj,kbmj->kgbm", fb.Zc, dh)


def fd_reeb_slot(chart, fb):
    """(K, beta, alpha) array of omega_beta^alpha(T) = -i Z_beta xi^{fc(alpha)} from
    finite differences of the transverse field solved at shifted points."""

    def xi(Q):
        return _transverse_batch(*eval_arrays([chart.jets("h"), chart.jets("hb")], Q))[:, 0, 1:]

    dxi = fd_wirtinger(xi, fb.P)[0]
    return -1j * np.einsum("kbj,kaj->kba", fb.Zc, np.take_along_axis(dxi, fb.fc[:, :, None], axis=1))


def immersion_suite(surface: SurfaceSpec, seed=0):
    spec = surface.immersion
    if spec is None:
        return []
    chart = spec.chart
    n = spec.n
    rng = np.random.default_rng(seed + 1)
    P = surface.random_points(50, seed=seed + 1)
    out = []

    fb, f = _sff_batch(spec, P)
    out.append(CheckResult.from_residual(
        "sff.normality", np.max(f["normality"]), 1e-9))
    out.append(CheckResult.from_residual(
        "sff.symmetry", np.max(f["symmetry"]), 1e-9))
    out.append(CheckResult.from_residual(
        "sff.mean-curvature-vs-transverse", np.max(np.abs(f["Hnorm2"] - fb.r)), 1e-9))
    # torsion by the ambient pairing -i <V, H> (no normal basis involved)
    amb = f["torsion_ambient"]
    out.append(CheckResult.from_residual(
        "sff.torsion-symmetric", np.max(np.abs(amb - np.swapaxes(amb, 1, 2))), 1e-9))

    # two-route traced Gauss identity
    ric_ll, R_ll, L = _ricci_batch(chart, fb)
    G = _gauss_form(f["holo"], fb.hinv)
    out.append(CheckResult.from_residual(
        "gauss.traced-two-route", np.max(np.abs(L - G)), 1e-7))

    # trace identities against the chart-only Ricci route
    hh = f["Hnorm2"][:, None, None] * fb.h
    gap = np.max(np.abs(ric_ll - ((n + 1) * hh - L)))
    out.append(CheckResult.from_residual("gauss.ricci-trace-identity", gap, 1e-7))
    R_gauss = n * (n + 1) * f["Hnorm2"] - f["II0"]
    out.append(CheckResult.from_residual(
        "gauss.scalar-curvature-identity", np.max(np.abs(R_gauss - R_ll)), 1e-8))

    # Ricci upper bound: eigenvalues of Ric - (n+1)|H|^2 h stay nonpositive
    slack = _rel_eigs((n + 1) * hh - ric_ll, fb.h)
    out.append(CheckResult(
        "gauss.ricci-upper-bound", float(np.min(slack)), -1e-9, bool(np.min(slack) > -1e-9)))

    # mixed part: II(Z_alpha, Z_betabar) = h_{alpha betabar} conj(H)
    M = _mixed_sff_batch(fb, f)
    pred = np.einsum("kab,kd->kabd", fb.h, np.conj(f["H"]))
    out.append(CheckResult.from_residual("sff.mixed-part-identity", np.max(np.abs(M - pred)), 1e-8))
    Htr = np.einsum("kab,kabd->kd", fb.hinv, np.conj(M)) / n
    out.append(CheckResult.from_residual("sff.mean-curvature-trace", np.max(np.abs(Htr - f["H"])), 1e-8))

    # Reeb pairing: theta(T) = 1 exactly, and H is metrically normal
    theta_T = np.real(np.conj(np.einsum("kj,kj->k", fb.grad, fb.xi)))
    out.append(CheckResult.from_residual(
        "reeb.contact-pairing", np.max(np.abs(theta_T - 1.0)), 1e-8))
    out.append(CheckResult.from_residual(
        "reeb.mean-curvature-normal", np.max(f["H_tangential"]), 1e-8))

    # invariance of |II0|^2 and |A|^2 under frame re-selection
    def reselected(w):
        fbw, fw = _sff_batch(spec, P[:10], w_index=w)
        return fw["II0"], _levi_norm2(fw["torsion"], fbw.hinv)

    spread, spreadA = _reselection_spreads(fb.grad, reselected, 2)
    out.append(CheckResult.from_residual("sff.II0-frame-invariance", spread, 1e-8))
    out.append(CheckResult.from_residual("sff.torsion-norm-frame-invariance", spreadA, 1e-8))

    # invariance under a unitary rotation of the normal basis
    A = spec.N - n
    X = rng.standard_normal((A, A)) + 1j * rng.standard_normal((A, A))
    U = np.linalg.qr(X)[0]
    holo_rot = np.einsum("kabx,yx->kaby", f["holo"], U)
    II0_rot = _levi_norm2(holo_rot, fb.hinv)
    out.append(CheckResult.from_residual(
        "sff.II0-normal-basis-invariance", np.max(np.abs(II0_rot - f["II0"])), 1e-8))

    # torsion read in the normal basis against the ambient pairing
    out.append(CheckResult.from_residual(
        "sff.torsion-ambient-route", np.max(np.abs(amb - f["torsion"])), 1e-9))
    return out


def spectral_suite(surface: SurfaceSpec, seed=0):
    chart = surface.chart
    rng = np.random.default_rng(seed + 2)
    P = surface.random_points(50, seed=seed + 2)
    fb = _frame_batch(chart, P)
    out = []

    def boxb(fs):
        return _boxb_batch(chart, fs, P, fb.xi)

    # Beltrami linearity on random pluriharmonic extensions, and CR functions
    # annihilated exactly (structural zero)
    f1 = PluriharmonicFunction(random_pluriharmonic(rng, chart.m), "f1")
    f2 = PluriharmonicFunction(random_pluriharmonic(rng, chart.m), "f2")
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    combo = PluriharmonicFunction(
        sym.add(sym.mul(sym.const(a), f1.ftilde), sym.mul(sym.const(b), f2.ftilde)), "combo")
    hol = PluriharmonicFunction(
        sym.add(sym.mul(sym.var(0), sym.var(chart.m - 1)), sym.intpow(sym.var(0), 2)), "cr")
    b_combo, b1, b2, b_hol = boxb([combo, f1, f2, hol]).T
    out.append(CheckResult.from_residual("beltrami.linearity", np.max(np.abs(b_combo - a * b1 - b * b2)), 1e-10))
    out.append(CheckResult.from_residual("beltrami.annihilates-cr", np.max(np.abs(b_hol)), 1e-15))

    # the closed forms of the gallery families, their columns added left to right as in tension_bound
    fs, n = surface.plurifamily, chart.n
    if surface.builder == "reinhardt":
        L = np.log(np.abs(P) ** 2)
        dens = _energy_density_batch(chart, fs, fb)
        out.append(CheckResult.from_residual(
            "reinhardt.kohn-identity", np.max(np.abs(boxb(fs) - (n / 2) * L)), 1e-9))
        out.append(CheckResult.from_residual(
            "reinhardt.energy-density", np.max(np.abs(dens - (0.5 - 0.5 * L**2))), 1e-9))
        out.append(CheckResult.from_residual("reinhardt.energy-sum", np.max(np.abs(sum(dens.T) - n / 2)), 1e-9))

    if surface.builder == "sphere":
        dens_sum = sum(_energy_density_batch(chart, fs, fb).T)
        out.append(CheckResult.from_residual(
            "sphere.conjugate-energy-sum", np.max(np.abs(dens_sum - n)), 1e-9))
        worst = np.max(np.abs(boxb(fs) - (n / surface.params["r"] ** 2) * np.conj(P)))
        out.append(CheckResult.from_residual("sphere.conjugate-eigenfunctions", worst, 1e-9))
    return out


def quadrature_suite(surface: SurfaceSpec, seed=0):
    if not surface.star_shaped:
        return []
    out = []
    rc = RadialChart(surface.chart)

    def density(P):
        return 1.0 + np.abs(P[:, 0]) ** 2

    resolutions = [4, 8] if surface.dim == 2 else [3, 5]
    vals = [integrate(rc, density, product_grid(r))[0] for r in resolutions]
    ref = integrate(rc, density, product_grid(resolutions[-1] * 2))[0]
    e0, e1 = abs(vals[0] - ref), abs(vals[1] - ref)
    factor = e0 / max(e1, 1e-14)
    out.append(CheckResult("quadrature.refinement-convergence", float(factor), 3.0, bool(factor >= 3.0)))

    vol = integrate(rc, lambda P: np.ones(P.shape[0]), product_grid(resolutions[-1]))[0]
    out.append(CheckResult("quadrature.orientation-positive", float(vol), 0.0, bool(vol > 0)))

    vmc, _ = integrate(rc, density, quasi_monte_carlo(4000, seed))
    rel = abs(vmc - ref) / abs(ref)
    out.append(CheckResult("quadrature.grid-vs-monte-carlo", float(rel), 5e-3, bool(rel < 5e-3)))
    return out


def run_suites(surface: SurfaceSpec, seed=0, include_symbolic=True):
    """All applicable invariant suites for one surface."""
    results = []
    if include_symbolic:
        results += symcore_suite(seed)
    results += hypersurface_suite(surface, seed)
    results += immersion_suite(surface, seed)
    results += spectral_suite(surface, seed)
    results += quadrature_suite(surface, seed)
    return results
