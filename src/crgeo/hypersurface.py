"""Per-point geometry of a strictly pseudoconvex hypersurface {rho = 0}.

Everything is derived from one real-valued defining expression rho on C^m
(m = n + 1): the moving frame Z_alpha = d_alpha - (rho_alpha/rho_w) d_w, the
Levi matrix, the transverse (1,0)-field xi with its curvature r, the bordered
Hessian determinant J, the restricted complex Hessian of log J, Tanaka-Webster
connection coefficients, and the Ricci data assembled from them.

Internals are vectorized: the private ``*_batch`` helpers accept (K, m) arrays
of points and return stacked arrays, grouping points by the per-point choice
of distinguished coordinate.  The public functions are the K=1 wrappers with
the per-point error contracts.  Charts are immutable after construction and
all computations are pure, so points may be partitioned across workers freely.

``eval_array`` is the one batched evaluation path: every array of jets the
package uses (gradients, Hessians, the log J Hessian, Levi derivatives, the
immersion's frame derivatives, Kohn-Laplacian gradients) is a nested list of
expressions evaluated by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import symbolic as sym
from .errors import (
    DegenerateFrame,
    NonpositiveJ,
    NotOnSurface,
    NotRealValued,
    NotStrictlyPseudoconvex,
    SingularSystem,
)

ON_SURFACE_TOL = 1e-10
FRAME_THRESHOLD = 1e-8
PD_EIGENVALUE_FLOOR = 1e-10
COND_LSTSQ = 1e10
COND_REJECT = 1e12


class HypersurfaceChart:
    """A defining function with cached symbolic jets.

    Parameters
    ----------
    rho : Expr
        Real-valued defining expression in z1..zm.
    dim : int
        Ambient complex dimension m = n + 1.
    """

    def __init__(self, rho: sym.Expr, dim: int, name: str = ""):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        bad = [j for j in sym.free_indices(rho) if j >= dim]
        if bad:
            raise ValueError(f"rho uses variables beyond dim={dim}: {sorted(bad)}")
        if not sym.appears_zero(
            sym.mul(sym.const(-0.5j), sym.add(rho, sym.neg(sym.conj(rho)))), tol=1e-12
        ):
            raise NotRealValued("rho must be real-valued")
        self.rho = rho
        self.m = int(dim)
        self.n = self.m - 1
        self.name = name
        self._jets: dict[tuple, sym.Expr] = {(): rho}
        self._J_expr: sym.Expr | None = None
        self._logJ_hess: list | None = None
        self._levi_syms: dict[int, list] = {}
        self._levi_dsyms: dict[int, list] = {}

    # ---- symbolic jets ---------------------------------------------------

    def jet(self, *steps) -> sym.Expr:
        """Derivative of rho along a sequence of (index, conjugated) steps."""
        key = tuple(steps)
        e = self._jets.get(key)
        if e is None:
            base = self.jet(*steps[:-1])
            j, c = steps[-1]
            e = sym.differentiate(base, j, c)
            self._jets[key] = e
        return e

    def _grad_exprs(self):
        return [self.jet((j, False)) for j in range(self.m)]

    def _hess_exprs(self):
        return [[self.jet((j, False), (k, True)) for k in range(self.m)] for j in range(self.m)]

    def fefferman_expr(self) -> sym.Expr:
        """Negative determinant of the bordered complex Hessian, symbolically."""
        if self._J_expr is None:
            m = self.m
            rows = [[self.rho] + [self.jet((k, True)) for k in range(m)]]
            for j in range(m):
                rows.append([self.jet((j, False))] + [self.jet((j, False), (k, True)) for k in range(m)])
            self._J_expr = sym.neg(_sym_det(rows))
        return self._J_expr

    def _logJ_hess_exprs(self):
        if self._logJ_hess is None:
            lj = sym.log(self.fefferman_expr())
            dj = [sym.differentiate(lj, j, False) for j in range(self.m)]
            self._logJ_hess = [
                [sym.differentiate(dj[j], k, True) for k in range(self.m)] for j in range(self.m)
            ]
        return self._logJ_hess

    def _levi_entry_exprs(self, w: int):
        """Symbolic Levi-matrix entries for the frame distinguished by w."""
        syms = self._levi_syms.get(w)
        if syms is None:
            fidx = _frame_coords(self.m, w)
            rw = self.jet((w, False))
            ratios = [sym.mul(self.jet((b, False)), sym.recip(rw)) for b in fidx]
            syms = []
            for bi, b in enumerate(fidx):
                row = []
                for mi, mu in enumerate(fidx):
                    e = self.jet((b, False), (mu, True))
                    e = sym.add(e, sym.neg(sym.mul(ratios[bi], self.jet((w, False), (mu, True)))))
                    e = sym.add(e, sym.neg(sym.mul(sym.conj(ratios[mi]), self.jet((b, False), (w, True)))))
                    e = sym.add(e, sym.mul(sym.mul(ratios[bi], sym.conj(ratios[mi])), self.jet((w, False), (w, True))))
                    row.append(e)
                syms.append(row)
            self._levi_syms[w] = syms
        return syms

    def _levi_entry_derivs(self, w: int):
        """d/dz^j of every symbolic Levi entry, for frame-field contraction."""
        dsyms = self._levi_dsyms.get(w)
        if dsyms is None:
            entries = self._levi_entry_exprs(w)
            dsyms = [
                [[sym.differentiate(e, j, False) for j in range(self.m)] for e in row]
                for row in entries
            ]
            self._levi_dsyms[w] = dsyms
        return dsyms

    # ---- numeric evaluation ----------------------------------------------

    def rho_at(self, P):
        return eval_at(self.rho, P)

    def grad_at(self, P):
        """(..., m) array of rho_j."""
        return eval_array(self._grad_exprs(), P)

    def hess_at(self, P):
        """(..., m, m) array of rho_{j kbar}."""
        return eval_array(self._hess_exprs(), P)

    def project(self, p):
        """Pull a nearby point onto {rho = 0} by Newton along the gradient
        (at most 80 steps, stopping once |rho| < 1e-13)."""
        z = np.array(p, dtype=complex)
        batched = z.ndim == 2
        Z = z if batched else z[None, :]
        for _ in range(80):
            val = np.real(self.rho_at(Z))
            if np.max(np.abs(val)) < 1e-13:
                break
            g = self.grad_at(Z)
            denom = 2.0 * np.sum(np.abs(g) ** 2, axis=1)
            step = val / np.where(denom == 0, 1.0, denom)
            Z = Z - step[:, None] * np.conj(g)
        return Z if batched else Z[0]

    def __repr__(self):
        label = self.name or sym.to_text(self.rho)
        return f"HypersurfaceChart(dim={self.m}, {label})"


def _sym_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = sym.const(0)
    for c, entry in enumerate(rows[0]):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        term = sym.mul(entry, _sym_det(minor))
        acc = sym.add(acc, term if c % 2 == 0 else sym.neg(term))
    return acc


def eval_at(e, P):
    """Evaluate an expression on points (..., m), broadcasting constants."""
    P = np.asarray(P, dtype=complex)
    v = np.asarray(sym.evaluate(e, [P[..., j] for j in range(P.shape[-1])]), dtype=complex)
    shape = P.shape[:-1]
    return np.broadcast_to(v, shape) if v.shape != shape else v


def eval_array(exprs, P):
    """Evaluate a nested list of expressions on points (..., m).

    ``exprs`` is an expression or a nested list of them with shape
    ``shape``; the result has shape ``(..., *shape)``, with one trailing
    index per nesting level: entry ``[..., i, j]`` is ``eval_at(exprs[i][j], P)``.
    """
    if isinstance(exprs, sym.Expr):
        return eval_at(exprs, P)
    P = np.asarray(P, dtype=complex)
    grid = np.array(exprs, dtype=object)
    out = np.empty(P.shape[:-1] + grid.shape, dtype=complex)
    for idx, e in np.ndenumerate(grid):
        out[(..., *idx)] = eval_at(e, P)
    return out


def _as_batch(p, m):
    P = np.asarray(p, dtype=complex)
    if P.ndim == 1:
        return P[None, :], True
    if P.ndim == 2 and P.shape[1] == m:
        return P, False
    raise ValueError(f"expected point shape (m,) or (K, m) with m={m}, got {P.shape}")


# ---- frame ------------------------------------------------------------------


@dataclass
class FrameData:
    """Numeric per-point frame package.

    ``Zcoeffs[a, j]`` are the coordinate components of Z_alpha, ``levi`` is
    h_{alpha betabar} (Hermitian positive definite), ``xi`` the transverse
    (1,0)-field, ``r`` its curvature, ``J`` the bordered-Hessian determinant.
    ``reeb`` holds W = i*xi; the Reeb field is W + conj(W).
    """

    point: np.ndarray
    w_index: int
    frame_coords: tuple
    Zcoeffs: np.ndarray
    levi: np.ndarray
    levi_inv: np.ndarray
    levi_eigs: np.ndarray
    xi: np.ndarray
    r: float
    J: float
    reeb: np.ndarray = field(init=False)

    def __post_init__(self):
        self.reeb = 1j * self.xi

    @property
    def n(self):
        return self.Zcoeffs.shape[0]


def _frame_coords(m, w):
    """The coordinates that index the frame Z_alpha distinguished by w."""
    return tuple(j for j in range(m) if j != w)


class _FrameBatch:
    """Stacked frame data over K points sharing a chart (w may vary)."""

    __slots__ = ("P", "w", "Zc", "h", "hinv", "heigs", "xi", "r", "J", "grad", "hess", "rho")

    def subset(self, mask):
        out = _FrameBatch()
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[mask])
        return out

    def uniform_w(self) -> int:
        """The distinguished coordinate shared by every point of the batch."""
        if not (self.w.size and np.all(self.w == self.w[0])):
            raise ValueError("frame batch requires a uniform w_index")
        return int(self.w[0])

    def w_groups(self):
        """Yield (mask, uniform-w sub-batch) for each distinguished coordinate."""
        for w in np.unique(self.w):
            mask = self.w == w
            yield mask, self.subset(mask)

    def frame_data(self, i) -> FrameData:
        w = int(self.w[i])
        return FrameData(
            point=self.P[i],
            w_index=w,
            frame_coords=_frame_coords(self.P.shape[1], w),
            Zcoeffs=self.Zc[i],
            levi=self.h[i],
            levi_inv=self.hinv[i],
            levi_eigs=self.heigs[i],
            xi=self.xi[i],
            r=float(self.r[i]),
            J=float(self.J[i]),
        )


def _check_imag(values, tol, what, cls=ValueError):
    worst = np.max(np.abs(np.imag(values)))
    if worst > tol:
        raise cls(f"{what} has imaginary residual {worst:.3e} (tol {tol:.1e})")


def _transverse_batch(chart, grad, hess):
    """Solve { rho_j xi^j = 1, rho_{j kbar} xi^j = r rho_kbar } pointwise.

    Returns (xi (K, m), r (K,) complex, cond (K,)).
    """
    K, m = grad.shape
    A = _transverse_matrix(grad, hess)
    b = np.zeros((K, m + 1), dtype=complex)
    b[:, 0] = 1.0
    cond = np.linalg.cond(A)
    bad = cond > COND_REJECT
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularSystem(
            f"transverse system singular at point index {i} (cond {cond[i]:.3e})"
        )
    x = np.empty((K, m + 1), dtype=complex)
    healthy = cond <= COND_LSTSQ
    if np.any(healthy):
        x[healthy] = np.linalg.solve(A[healthy], b[healthy][..., None])[..., 0]
    for i in np.nonzero(~healthy)[0]:
        x[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return x[:, :m], x[:, m], cond


def _transverse_matrix(grad, hess):
    """(K, m+1, m+1) matrix of the transverse system in the unknowns (xi, r)."""
    K, m = grad.shape
    A = np.zeros((K, m + 1, m + 1), dtype=complex)
    A[:, 0, :m] = grad
    A[:, 1:, :m] = np.swapaxes(hess, 1, 2)
    A[:, 1:, m] = -np.conj(grad)
    return A


def _fefferman_batch(rho, grad, hess):
    K, m = grad.shape
    B = np.zeros((K, m + 1, m + 1), dtype=complex)
    B[:, 0, 0] = rho
    B[:, 0, 1:] = np.conj(grad)
    B[:, 1:, 0] = grad
    B[:, 1:, 1:] = hess
    return -np.linalg.det(B)


def _frame_batch(chart: HypersurfaceChart, P: np.ndarray, w_index=None) -> _FrameBatch:
    """Frame, Levi data, transverse field, and J for a (K, m) batch."""
    m, n = chart.m, chart.n
    rho = np.real_if_close(chart.rho_at(P))
    _check_imag(rho, 1e-9, "rho", NotOnSurface)
    rho = np.real(rho)
    offs = np.abs(rho)
    if np.max(offs) >= ON_SURFACE_TOL:
        i = int(np.argmax(offs))
        raise NotOnSurface(f"|rho| = {offs[i]:.3e} at point index {i} exceeds tol {ON_SURFACE_TOL:.1e}")

    grad = chart.grad_at(P)
    absg = np.abs(grad)
    gmax = np.max(absg, axis=1)
    if np.min(gmax) <= FRAME_THRESHOLD:
        i = int(np.argmin(gmax))
        raise DegenerateFrame(f"all |rho_j| <= {FRAME_THRESHOLD:.1e} at point index {i}")
    if w_index is None:
        w = np.argmax(absg, axis=1)
    else:
        w = np.full(P.shape[0], int(w_index))
        small = absg[np.arange(P.shape[0]), w] <= FRAME_THRESHOLD
        if np.any(small):
            i = int(np.argmax(small))
            raise DegenerateFrame(f"|rho_w| <= {FRAME_THRESHOLD:.1e} for pinned w at point index {i}")

    hess = chart.hess_at(P)
    K = P.shape[0]
    fb = _FrameBatch()
    fb.P, fb.w, fb.grad, fb.hess, fb.rho = P, w, grad, hess, rho
    fb.Zc = np.zeros((K, n, m), dtype=complex)
    for wi in np.unique(w):
        mask = w == wi
        fidx = _frame_coords(m, wi)
        block = fb.Zc[mask]
        block[:, :, fidx] = np.eye(n)
        block[:, :, wi] = -grad[mask][:, fidx] / grad[mask][:, wi][:, None]
        fb.Zc[mask] = block

    fb.h = np.einsum("kaj,kjl,kbl->kab", fb.Zc, hess, np.conj(fb.Zc))
    herm_gap = np.max(np.abs(fb.h - np.conj(np.swapaxes(fb.h, 1, 2))))
    if herm_gap > 1e-10:
        raise NotStrictlyPseudoconvex(f"Levi matrix non-Hermitian by {herm_gap:.3e}")
    fb.h = 0.5 * (fb.h + np.conj(np.swapaxes(fb.h, 1, 2)))
    fb.heigs = np.linalg.eigvalsh(fb.h)
    if np.min(fb.heigs) <= PD_EIGENVALUE_FLOOR:
        i = int(np.argmin(fb.heigs[:, 0]))
        raise NotStrictlyPseudoconvex(
            f"Levi eigenvalue {fb.heigs[i, 0]:.3e} at point index {i}"
        )
    fb.hinv = np.linalg.inv(fb.h)

    xi, r, _ = _transverse_batch(chart, grad, hess)
    _check_imag(r, 1e-10, "transverse curvature", SingularSystem)
    fb.xi, fb.r = xi, np.real(r)

    J = _fefferman_batch(rho, grad, hess)
    _check_imag(J, 1e-9, "bordered determinant")
    fb.J = np.real(J)
    return fb


def frame_at(chart: HypersurfaceChart, p, w_index=None) -> FrameData:
    """Moving frame and derived scalars at one on-surface point."""
    P, _ = _as_batch(p, chart.m)
    return _frame_batch(chart, P, w_index=w_index).frame_data(0)


def transverse_solve(chart: HypersurfaceChart, p):
    """Transverse (1,0)-field xi and curvature r at a point: solves the
    (m+1)x(m+1) system { rho_j xi^j = 1 ; rho_{j kbar} xi^j = r rho_kbar }."""
    P, single = _as_batch(p, chart.m)
    xi, r, _ = _transverse_batch(chart, chart.grad_at(P), chart.hess_at(P))
    _check_imag(r, 1e-10, "transverse curvature", SingularSystem)
    if single:
        return xi[0], float(np.real(r[0]))
    return xi, np.real(r)


def fefferman_det(chart: HypersurfaceChart, p):
    """-det of the bordered complex Hessian [[rho, rho_kbar], [rho_j, rho_jkbar]]."""
    P, single = _as_batch(p, chart.m)
    J = _fefferman_batch(
        np.real(chart.rho_at(P)), chart.grad_at(P), chart.hess_at(P)
    )
    _check_imag(J, 1e-10, "bordered determinant")
    J = np.real(J)
    return float(J[0]) if single else J


def _loghess_batch(chart: HypersurfaceChart, fb: _FrameBatch) -> np.ndarray:
    Jval = fb.J
    if np.min(Jval) <= 0:
        i = int(np.argmin(Jval))
        raise NonpositiveJ(f"J = {Jval[i]:.3e} at point index {i}")
    lhess = eval_array(chart._logJ_hess_exprs(), fb.P)
    L = np.einsum("kaj,kjl,kbl->kab", fb.Zc, lhess, np.conj(fb.Zc))
    L = 0.5 * (L + np.conj(np.swapaxes(L, 1, 2)))
    return L


def loghess_J(chart: HypersurfaceChart, p) -> np.ndarray:
    """Restriction of the complex Hessian of log J to the frame:
    L_{alpha betabar} = Z_alpha^j conj(Z_beta^k) (log J)_{j kbar}."""
    P, _ = _as_batch(p, chart.m)
    fb = _frame_batch(chart, P)
    return _loghess_batch(chart, fb)[0]


# ---- connection --------------------------------------------------------------


@dataclass
class ConnectionData:
    """Tanaka-Webster connection coefficients in the chart frame.

    ``omega[beta, alpha, slot]`` evaluates the form omega_beta^alpha on the
    frame field indexed by slot: slots 0..n-1 are Z_gamma, n..2n-1 are
    Z_gammabar, slot 2n is the Reeb field.
    """

    point: np.ndarray
    w_index: int
    omega: np.ndarray


def _connection_batch(chart: HypersurfaceChart, fb: _FrameBatch, include_reeb=True) -> np.ndarray:
    """(K, n, n, 2n+1) connection coefficients; requires a single-w batch.

    When ``include_reeb`` is false the Reeb slot is left zero (it needs the
    implicit derivative of the transverse field, which form computations on
    holomorphic pairs never touch).
    """
    n = chart.n
    fidx = _frame_coords(chart.m, fb.uniform_w())

    # Z_gamma h_{beta mubar}, then raise with h^{alpha mubar} = hinv[mu, alpha]
    Zgh = _frame_levi_derivs(chart, fb)
    term1 = np.einsum("kgbm,kma->kgba", Zgh, fb.hinv)

    xi_frame = fb.xi[:, fidx]
    xi_low = np.einsum("kbm,km->kb", fb.h, np.conj(xi_frame))

    omega = np.zeros((fb.P.shape[0], n, n, 2 * n + 1), dtype=complex)
    for g in range(n):
        omega[:, :, :, g] = term1[:, g]
        omega[:, :, g, g] -= xi_low
        # omega_beta^alpha(Z_gammabar) = xi^alpha h_{beta gammabar}
        omega[:, :, :, n + g] = fb.h[:, :, g][:, :, None] * xi_frame[:, None, :]
    if include_reeb:
        # slot 2n: omega_beta^alpha(T) = -i Z_beta xi^alpha via implicit
        # differentiation of the transverse linear system
        omega[:, :, :, 2 * n] = -1j * _xi_frame_derivatives(chart, fb)
    return omega


def _frame_levi_derivs(chart, fb):
    """(K, gamma, beta, mu) array of Z_gamma h_{beta mubar} for a uniform-w batch."""
    dh = eval_array(chart._levi_entry_derivs(fb.uniform_w()), fb.P)
    return np.einsum("kgj,kbmj->kgbm", fb.Zc, dh)


def _xi_frame_derivatives(chart, fb):
    """(K, beta, alpha) array of Z_beta xi^{fidx(alpha)} for a uniform-w batch."""
    m = chart.m
    fidx = _frame_coords(m, fb.uniform_w())
    K = fb.P.shape[0]
    grad, hess = fb.grad, fb.hess

    A = _transverse_matrix(grad, hess)
    x = np.concatenate([fb.xi, fb.r[:, None].astype(complex)], axis=1)

    # dA/dz^j assembled from pure-holomorphic and third-order jets
    ms = range(m)
    # hol2[:, l, j] = rho_{l j}, jet3[:, l, k, j] = d_j rho_{l kbar}
    hol2 = eval_array([[chart.jet((l, False), (j, False)) for j in ms] for l in ms], fb.P)
    jet3 = eval_array(
        [[[chart.jet((l, False), (k, True), (j, False)) for j in ms] for k in ms] for l in ms], fb.P
    )

    dA = np.zeros((K, m, m + 1, m + 1), dtype=complex)  # [k, j, row, col]
    dA[:, :, 0, :m] = np.transpose(hol2, (0, 2, 1))
    dA[:, :, 1:, :m] = np.transpose(jet3, (0, 3, 2, 1))
    dA[:, :, 1:, m] = -np.transpose(hess, (0, 2, 1))  # d_j(-rho_kbar) = -rho_{j kbar}

    rhs = -np.einsum("kjrc,kc->krj", dA, x)
    dx = np.linalg.solve(A, rhs)  # (K, m+1, j): d_j of (xi, r)
    return np.einsum("kbj,kaj->kba", fb.Zc, dx[:, fidx, :])


def connection_coeffs(chart: HypersurfaceChart, frame: FrameData) -> ConnectionData:
    """Connection coefficients at the frame's base point."""
    fb = _frame_batch(chart, frame.point[None, :], w_index=frame.w_index)
    omega = _connection_batch(chart, fb)
    return ConnectionData(point=frame.point, w_index=frame.w_index, omega=omega[0])


# ---- curvature and conformal change ------------------------------------------


def _trace_h(hinv, M):
    """h^{alpha betabar} M_{alpha betabar} for stacked matrices."""
    return np.einsum("kab,kba->k", M, hinv)


def _ricci_batch(chart, fb):
    L = _loghess_batch(chart, fb)
    n = chart.n
    ric = (n + 1) * fb.r[:, None, None] * fb.h - L
    R = _trace_h(fb.hinv, ric)
    _check_imag(R, 1e-9, "scalar curvature")
    return ric, np.real(R), L


def ricci_liluk(chart: HypersurfaceChart, p, w_index=None):
    """Ricci form restricted to the frame and its scalar trace:
    Ric = (n+1) r h - L with L the restricted Hessian of log J."""
    P, _ = _as_batch(p, chart.m)
    fb = _frame_batch(chart, P, w_index=w_index)
    ric, R, _ = _ricci_batch(chart, fb)
    return ric[0], float(R[0])


def dbar_b_norm2(fb: _FrameBatch, dfull: np.ndarray) -> np.ndarray:
    """|dbar_b f|^2 from the full ambient (1,0)-gradient of a real function.

    ``dfull[k, j]`` holds df/dz^j; the result is the Hermitian quadratic form
    conj(g) . h^{-1} . g with g_alpha = Z_alpha f.
    """
    g = np.einsum("kaj,kj->ka", fb.Zc, dfull)
    val = np.einsum("ka,kab,kb->k", np.conj(g), fb.hinv, g)
    return np.real(val)


def conformal_transverse(chart: HypersurfaceChart, sigma: sym.Expr, p):
    """Transverse curvature of the rescaled defining function e^sigma rho,
    evaluated from chart data alone:
    r_hat = e^{-sigma} (r + 2 Re(xi sigma) - |dbar_b sigma|^2)."""
    P, single = _as_batch(p, chart.m)
    rhat = _conformal_batch(chart, sigma, _frame_batch(chart, P))
    return float(rhat[0]) if single else rhat


def _conformal_batch(chart, sigma, fb):
    """r_hat of ``conformal_transverse`` at the points of a frame batch."""
    sval = eval_at(sigma, fb.P)
    _check_imag(sval, 1e-9, "sigma")
    dsig = eval_array([sym.differentiate(sigma, j, False) for j in range(chart.m)], fb.P)
    xi_sigma = np.einsum("kj,kj->k", fb.xi, dsig)
    dens = dbar_b_norm2(fb, dsig)
    return np.exp(-np.real(sval)) * (fb.r + 2.0 * np.real(xi_sigma) - dens)
