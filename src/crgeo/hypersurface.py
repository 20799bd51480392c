"""Per-point geometry of a strictly pseudoconvex hypersurface {rho = 0}.

Everything is derived from one real-valued defining expression rho on C^m
(m = n + 1): the moving frame Z_alpha = d_alpha - (rho_alpha/rho_w) d_w, the
Levi matrix, the transverse (1,0)-field xi with its curvature r, Tanaka-Webster
connection coefficients, and the Ricci data assembled from them.  One bordered
matrix B = [[rho, rho_kbar], [rho_j, rho_{j kbar}]] carries the pointwise
algebra, and J = -det B.  On the surface rho = 0, and one gated inverse B^-1
of the zero-corner matrix, taken once per frame batch, gives the rest: (-r, xi)
is its row 0, and d_j B^-1 = -B^-1 d_j B B^-1 gives the connection's Reeb slot
and, by Jacobi's formula, the complex Hessian of log J.

Internals are vectorized: the private ``*_batch`` helpers accept (K, m) arrays
of points and return stacked arrays.  Each point carries its own distinguished
coordinate w, and every helper takes batches that mix them: only the w-column
of the frame varies, so frame derivatives follow by the chain rule from
w-free ambient jets.  A single point is a one-row batch: there is no
per-point API, and row k of any result depends on point k alone.  Charts are
immutable after construction and all computations are pure, so points may be
partitioned across workers freely.

``eval_arrays`` is the one batched evaluation path: every array of jets the
package uses (gradients, Hessians, the third- and fourth-order ambient jets,
the immersion's derivatives, Kohn-Laplacian gradients) is a ``sym.jets``
list evaluated by it, and every list of arrays a point set needs is one
``sym.evaluate`` program over their union DAG: each function that reads jets
at a point set makes one call.  A frame batch is built whole at construction:
rho and all its ambient jets up to order four (the fourth skipped where the
third vanish) run as one program, and d_j B and B^-1 d_j B B^-1 follow from
them and B^-1.

r, J, the scalar curvature R, sigma and the contact volume form become real
through ``_real`` (|Im x| <= tol max(1, |Re x|)), and ``_on_surface`` puts P on
{rho = 0} when |rho| <= tol max(1, |P| |rho_j|), NaN and inf failing (P lies
about |rho| / (2 |rho_j|) from the surface): tol at unit scale and relative above
it, so c rho (c > 0), whose r, J and R scale by powers of c, passes as rho does.
"""

from __future__ import annotations

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
COND_REJECT = 1e12


class HypersurfaceChart:
    """A real defining function rho on C^m.

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
        _require_real(rho, "rho")
        self.rho = rho
        self.m = int(dim)
        self.n = self.m - 1
        self.name = name

    # ---- numeric evaluation ----------------------------------------------

    def rho_at(self, P):
        """rho on points (..., m) as one ``sym.evaluate`` call; a constant rho broadcasts."""
        P = np.asarray(P, dtype=complex)
        v = np.asarray(sym.evaluate(self.rho, [P[..., j] for j in range(self.m)]), dtype=complex)
        return v if v.shape == P.shape[:-1] else np.broadcast_to(v, P.shape[:-1])

    def jets(self, pattern):
        """``sym.jets(self.rho, self.m, pattern)``, built once per process."""
        return sym.jets(self.rho, self.m, pattern)

    @property
    def third_jets_vanish(self):
        """True when every third jet d_j d_l d_cbar rho is the constant 0, as on
        every quadric, read from the jet array's layout.  ``sym.jets`` builds each
        fourth jet d_j d_kbar rho_{l cbar} from such a third jet, so then every
        fourth jet is the constant 0 too."""
        vals = self.jets("hbh").values
        return vals is not None and not any(vals)

    def project(self, p):
        """Pull a nearby point onto {rho = 0} by Newton along the gradient
        (at most 80 steps, stopping once |rho| < 1e-13 max(1, |P| |rho_j|), so c rho
        stops where rho does).

        Raises NotOnSurface when 80 steps leave |Re rho| > ON_SURFACE_TOL
        max(1, |P| |rho_j|), rho_j the last gradient evaluated (``_on_surface``),
        and at once when such a point has a zero gradient or rho is not finite.
        """
        z = np.array(p, dtype=complex)
        batched = z.ndim == 2
        Z = z if batched else z[None, :]
        g = np.zeros_like(Z)
        for it in range(81):  # 80 Newton steps, then a last look at rho
            val = self.rho_at(Z).real
            stop = (np.abs(val) < 1e-13 * _surface_scale(Z, g)).all()
            if it == 80 or stop or not np.isfinite(val).all():
                break
            g = eval_arrays([self.jets("h")], Z)[0]
            denom = 2.0 * (np.abs(g) ** 2).sum(axis=1)
            if ((denom == 0) & (np.abs(val) >= ON_SURFACE_TOL)).any():
                break  # Newton cannot move a point where rho has no gradient
            step = val / np.where(denom == 0, 1.0, denom)
            Z = Z - step[:, None] * np.conj(g)
        _on_surface(val, Z, g, ON_SURFACE_TOL, NotOnSurface, "projection left |rho| = {:.3e} at point index {}")
        return Z if batched else Z[0]

    def __repr__(self):
        label = self.name or sym.to_text(self.rho)
        return f"HypersurfaceChart(dim={self.m}, {label})"


def _require_real(e, what):
    """Reject ``e`` unless ``sym.vanishes`` finds |Im e| < 1e-12 max(1, |e|)."""
    if not sym.vanishes([sym.im(e)], e, 1e-12):
        raise NotRealValued(f"{what} must be real-valued")


def eval_arrays(arrays, P):
    """Evaluate a list of arrays of expressions on points (..., m) as one program.

    Each array is an expression (rank 0) or a nested list of them with shape
    ``shape``, and gives an array of shape ``(..., *shape)``, with one trailing
    index per nesting level: entry ``[..., i, j]`` is the value of ``exprs[i][j]``.
    The entries of every array that is not all constant nodes run as one
    ``sym.evaluate`` call, so a subexpression shared between entries or arrays
    runs once; an all-constant array is filled from its values.  Each value is
    copied out as it is read, so the outputs are not held twice.  A ``sym.jets``
    array brings its layout; any other nesting is laid out on each call.
    """
    P = np.asarray(P, dtype=complex)
    lead = P.shape[:-1]
    layouts = [_layout(a) for a in arrays]
    roots = [e for flat, _, values in layouts if values is None for e in flat]
    vals = sym.evaluate(roots, [P[..., j] for j in range(P.shape[-1])]) if roots else []
    vals.reverse()
    outs = []
    for flat, shape, values in layouts:
        out = np.empty(lead + (len(flat),), dtype=complex)
        if values is None:
            cols = out.transpose(-1, *range(out.ndim - 1))  # cols[i] is out[..., i]
            for i in range(len(flat)):
                cols[i] = vals.pop()
        else:
            out[...] = values
        outs.append(out.reshape(lead + shape))
    return outs


def _layout(a):
    """(flat entries, shape, constant values or None) of an array for ``eval_arrays``."""
    if isinstance(a, sym.Expr):
        return (a,), (), sym.constants((a,))
    if not isinstance(a, sym.JetArray):
        a = sym.JetArray(a)
    return a.flat, a.shape, a.values


def _batch(P, m):
    """(K, m) complex array of points; any other shape is a ValueError."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != 2 or P.shape[1] != m:
        raise ValueError(f"expected points of shape (K, {m}), got {P.shape}")
    return P


# ---- frame ------------------------------------------------------------------


def _frame_coeffs(grad, w):
    """Frame of each point distinguished by its own w, from the gradient.

    Returns (fc, Zc): ``fc[k]`` lists the n coordinates other than ``w[k]``
    that index Z_alpha, and ``Zc[k, a]`` holds the coordinate components of
    Z_alpha = d_{fc[k, a]} - (rho_{fc[k, a]}/rho_w) d_w.
    """
    K, m = grad.shape
    k = np.arange(K)
    cols = np.arange(m - 1)
    fc = cols + (cols >= w[:, None])
    Zc = np.zeros((K, m - 1, m), dtype=complex)
    Zc[k[:, None], cols, fc] = 1.0
    Zc[k, :, w] = -np.take_along_axis(grad, fc, axis=1) / grad[k, w][:, None]
    return fc, Zc


def _levi_form(Zc, H):
    """Restriction Z_alpha^j conj(Z_beta^l) H_{j lbar} of stacked (K, m, m) forms."""
    return np.einsum("kaj,kjl,kbl->kab", Zc, H, np.conj(Zc))


class _FrameBatch:
    """Stacked frame data over K points sharing a chart; w varies per point.

    The ambient jets are filled at construction, from the one program that
    also gives ``rho``, ``grad`` and ``hess``: ``hol2[k, l, j]`` = rho_{lj},
    ``jet3[k, l, c, j]`` = d_j rho_{l cbar} and ``jet4[k, j, c, a, b]`` =
    d_j d_cbar rho_{a bbar}, None where the third jets vanish.  So are ``Binv``,
    the gated B^-1 of ``_transverse_batch`` whose row 0 is (-r, xi),
    ``dB[k, j]`` = d_j B, ``BdBB[k, j]`` = B^-1 d_j B B^-1 = -d_j B^-1 and
    ``dZw[k, a, g]`` = Z_alpha Z_gamma^w.
    """

    __slots__ = ("P", "w", "fc", "Zc", "h", "hinv", "heigs", "xi", "r", "J", "grad", "hess", "rho",
                 "hol2", "jet3", "jet4", "Binv", "dB", "BdBB", "dZw")

    def subset(self, mask):
        out = _FrameBatch()
        for name in self.__slots__:
            v = getattr(self, name)
            setattr(out, name, None if v is None else v[mask])
        return out

    def at_w(self, A):
        """A[k, ..., w_k]: each point's distinguished entry of the last axis."""
        return A[np.arange(self.w.size), ..., self.w]


def _real(values, tol, what, cls):
    """Real part of stacked scalars by the realness rule of the module docstring;
    raises ``cls`` naming the first point that breaks it.  A NaN passes."""
    re = values.real
    bad = np.abs(values.imag) > tol * np.maximum(1.0, np.abs(re))
    if bad.any():
        i = int(bad.argmax())
        raise cls(f"{what} has imaginary residual {abs(values[i].imag):.3e} at point index {i} (tol {tol:.1e})")
    return re


def _surface_scale(P, grad):
    """(K,) max(1, |P| |rho_j|), the factor of the on-surface rule."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf * 0 scale is NaN; fmax reads it as 1
        return np.fmax(1.0, _row_norms(P) * _row_norms(grad))


def _row_norms(x):
    """(K,) Euclidean row norms: the expression ``np.linalg.norm(x, axis=1)`` evaluates, without its per-call cost."""
    return np.sqrt((x.conj() * x).real.sum(axis=1))


def _on_surface(rho, P, grad, tol, cls, msg, labels=None):
    """Raise ``cls(msg.format(|rho|, i or labels[i]))`` at the first point i off the surface."""
    bound = tol * _surface_scale(P, grad)
    bad = ~((np.abs(rho) <= bound) & np.isfinite(rho))
    if bad.any():
        i = int(bad.argmax())
        raise cls(msg.format(abs(rho[i]), i if labels is None else labels[i]) + f" (tol {bound[i]:.1e})")


def _transverse_batch(grad, hess):
    """(K, m+1, m+1) B^-1 of the bordered matrix B with its corner zero, gated by
    its condition number (SingularSystem above ``COND_REJECT``).

    Row 0 of B^-1 is u = (-r, xi), the solution of { rho_j xi^j = 1, rho_{j kbar}
    xi^j = r rho_kbar }, i.e. B^T u = e_0.  B^-1 is the transpose of inv(B^T),
    whose column 0 is that solve: row 0 then keeps its accuracy where B is
    ill-conditioned, as do the rows of B^-1 d_j B B^-1 that read it.
    """
    K = grad.shape[0]
    Bt = np.swapaxes(_bordered(0.0, np.conj(grad), grad, hess), 1, 2)
    # B is Hermitian with its zero corner, so its singular values are |eigenvalues|
    lam = np.abs(np.linalg.eigvalsh(Bt))
    low = lam.min(axis=1)
    cond = np.divide(lam.max(axis=1), low, out=np.full(K, np.inf), where=low > 0)
    bad = cond > COND_REJECT
    if bad.any():
        i = int(bad.argmax())
        raise SingularSystem(
            f"transverse system singular at point index {i} (cond {cond[i]:.3e})"
        )
    return np.swapaxes(np.linalg.inv(Bt), 1, 2)


def _bordered(corner, row, col, block):
    """Stacked [[corner, row], [col, block]]: the bordered Hessian B is
    ``_bordered(rho, rho_kbar, rho_j, rho_{j kbar})``, and d_j B has the same layout."""
    m = block.shape[-1]
    B = np.empty(block.shape[:-2] + (m + 1, m + 1), dtype=complex)
    B[..., 0, 0] = corner
    B[..., 0, 1:] = row
    B[..., 1:, 0] = col
    B[..., 1:, 1:] = block
    return B


def _frame_batch(chart: HypersurfaceChart, P: np.ndarray, w_index=None) -> _FrameBatch:
    """Frame, Levi data, the transverse system's B^-1 with xi and r, and J for a
    (K, m) batch, with the ambient jets of rho up to order four, all from one
    ``eval_arrays`` program."""
    patterns = ("", "h", "hb", "hh", "hbh") + (() if chart.third_jets_vanish else ("hbhb",))
    rho, grad, hess, hol2, jet3, *jet4 = eval_arrays([chart.jets(p) for p in patterns], P)
    _on_surface(rho, P, grad, ON_SURFACE_TOL, NotOnSurface, "|rho| = {:.3e} at point index {} is off the surface")
    absg = np.abs(grad)
    # at the argmax w, |rho_w| = max_j |rho_j|: one gate serves both choices of w
    w = absg.argmax(axis=1) if w_index is None else np.full(P.shape[0], int(w_index))
    # |P| max|rho_{j kbar}| scales as rho_w does under rho -> c rho and z -> lambda z
    rho_w = absg[np.arange(P.shape[0]), w]
    bound = FRAME_THRESHOLD * _row_norms(P) * np.abs(hess).max(axis=(1, 2))
    small = rho_w <= bound
    if small.any():
        i = int(small.argmax())
        raise DegenerateFrame(f"|rho_w| = {rho_w[i]:.3e} <= {bound[i]:.1e} for w = {w[i]} at point index {i}")

    fb = _FrameBatch()
    fb.P, fb.w, fb.grad, fb.hess, fb.rho = P, w, grad, hess, rho.real
    fb.hol2, fb.jet3, fb.jet4 = hol2, jet3, jet4[0] if jet4 else None
    fb.fc, fb.Zc = _frame_coeffs(grad, w)
    # Z_alpha Z_gamma^w = -(Zc rho_{lj} Zc^T)/rho_w: only the w-column of the
    # frame varies, and d_j Z_gamma^w = -Z_gamma^l rho_{lj} / rho_w
    fb.dZw = -np.einsum("kaj,klj,kgl->kag", fb.Zc, hol2, fb.Zc) / fb.at_w(grad)[:, None, None]

    fb.h = _levi_form(fb.Zc, hess)
    herm_gap = np.abs(fb.h - np.conj(np.swapaxes(fb.h, 1, 2))).max(axis=(1, 2))
    bound = 1e-10 * _levi_rounding_scale(fb.Zc, hess)
    if (herm_gap > bound).any():
        i = int((herm_gap / bound).argmax())
        raise NotStrictlyPseudoconvex(
            f"Levi matrix non-Hermitian by {herm_gap[i]:.3e} at point index {i} (bound {bound[i]:.1e})"
        )
    fb.h = 0.5 * (fb.h + np.conj(np.swapaxes(fb.h, 1, 2)))
    fb.heigs = np.linalg.eigvalsh(fb.h)
    if fb.heigs.min() <= PD_EIGENVALUE_FLOOR:
        i = int(fb.heigs[:, 0].argmin())
        raise NotStrictlyPseudoconvex(
            f"Levi eigenvalue {fb.heigs[i, 0]:.3e} at point index {i}"
        )
    fb.hinv = np.linalg.inv(fb.h)

    fb.Binv = _transverse_batch(grad, hess)
    fb.xi, fb.r = _xi_r(fb.Binv)
    fb.dB = _bordered(grad, hess, np.swapaxes(hol2, 1, 2), np.moveaxis(jet3, 3, 1))
    # stacked matmuls in a fixed order, B^-1 d_j B first: an einsum path search
    # costs ten times the contraction at K=1, and this order is no slower at scan size
    K, m, q, _ = fb.dB.shape
    left = np.swapaxes(fb.dB, 2, 3).reshape(K, m * q, q) @ np.swapaxes(fb.Binv, 1, 2)  # [k, (j p), r]
    fb.BdBB = (np.swapaxes(left.reshape(K, m, q, q), 2, 3).reshape(K, m * q, q) @ fb.Binv).reshape(K, m, q, q)
    fb.J = _fefferman_batch(fb.rho, grad, hess)
    return fb


def _xi_r(Binv):
    """(xi, r) from row 0 = (-r, xi) of stacked ``_transverse_batch`` inverses, r made real by ``_real``."""
    return Binv[:, 0, 1:], _real(-Binv[:, 0, 0], 1e-10, "transverse curvature", SingularSystem)


def _levi_rounding_scale(Zc, hess):
    """(K,) max(1, |Zc|^2 max|H|): rounding in the Levi form Zc H Zc^* scales with it."""
    return np.maximum(1.0, np.abs(Zc).max(axis=(1, 2)) ** 2 * np.abs(hess).max(axis=(1, 2)))


def _fefferman_batch(rho, grad, hess):
    """(K,) J = -det B of the bordered Hessian from stacked rho, rho_j, rho_{j kbar}."""
    return _real(-np.linalg.det(_bordered(rho, np.conj(grad), grad, hess)), 1e-10, "J", NonpositiveJ)


def transverse_solve(chart: HypersurfaceChart, P):
    """Transverse (1,0)-field xi (K, m) and curvature r (K,) at a (K, m) batch:
    solves the (m+1)x(m+1) system { rho_j xi^j = 1 ; rho_{j kbar} xi^j = r rho_kbar },
    whose solution (-r, xi) is row 0 of the inverse bordered matrix B^-1.
    Needs no frame, so it serves as an oracle route."""
    P = _batch(P, chart.m)
    return _xi_r(_transverse_batch(*eval_arrays([chart.jets("h"), chart.jets("hb")], P)))


def fefferman_det(chart: HypersurfaceChart, P):
    """(K,) -det of the bordered complex Hessian [[rho, rho_kbar], [rho_j, rho_jkbar]]
    at a (K, m) batch, on or off the surface."""
    rho, grad, hess = eval_arrays([chart.jets(p) for p in ("", "h", "hb")], _batch(P, chart.m))
    return _fefferman_batch(rho.real, grad, hess)


def _loghess_batch(chart: HypersurfaceChart, fb: _FrameBatch) -> np.ndarray:
    """(K, n, n) restriction of the complex Hessian of log J to the frame:
    L_{alpha betabar} = Z_alpha^j conj(Z_beta^k) (log J)_{j kbar}."""
    Jval = fb.J
    if Jval.min() <= 0:
        i = int(Jval.argmin())
        raise NonpositiveJ(f"J = {Jval[i]:.3e} at point index {i}")
    L = _levi_form(fb.Zc, _loghess_ambient(chart, fb))
    L = 0.5 * (L + np.conj(np.swapaxes(L, 1, 2)))
    return L


def _loghess_ambient(chart: HypersurfaceChart, fb: _FrameBatch) -> np.ndarray:
    """(K, j, k) ambient Hessian (log J)_{j kbar} = tr(B^-1 d_kbar d_j B) - tr(B^-1 d_kbar B B^-1 d_j B)
    by Jacobi's formula; beyond the ambient jets it needs d_j d_kbar rho_{a cbar}, ``fb.jet4``.
    The terms of the third and fourth jets are skipped when they vanish."""
    Binv, jet3 = fb.Binv, fb.jet3
    # by blocks of d_cbar d_j B = [[rho_{j cbar}, conj(jet3[b, j, c])], [jet3[a, c, j], jet4[j, c]]]
    first = Binv[:, 0, 0, None, None] * fb.hess
    if fb.jet4 is not None:
        first = (first
                 + np.einsum("kb,kbjc->kjc", Binv[:, 1:, 0], np.conj(jet3))
                 + np.einsum("ka,kacj->kjc", Binv[:, 0, 1:], jet3)
                 + np.einsum("kba,kjcab->kjc", Binv[:, 1:, 1:], fb.jet4))
    # B is Hermitian, so d_cbar B = (d_c B)^H and the second trace is tr((d_c B)^H B^-1 d_j B B^-1)
    return first - np.einsum("kjrq,kcrq->kjc", fb.BdBB, np.conj(fb.dB))


# ---- connection --------------------------------------------------------------


def _connection_batch(chart: HypersurfaceChart, fb: _FrameBatch) -> np.ndarray:
    """(K, n, n, 2n+1) connection coefficients, every slot filled: ``omega[k, beta,
    alpha, slot]`` evaluates omega_beta^alpha on a frame field, slots 0..n-1 being
    Z_gamma, n..2n-1 Z_gammabar and 2n the Reeb field W + conj(W), W = i xi.
    """
    n = chart.n

    # Z_gamma h_{beta mubar}, then raise with h^{alpha mubar} = hinv[mu, alpha]
    Zgh = _frame_levi_derivs(chart, fb)
    term1 = np.einsum("kgbm,kma->kgba", Zgh, fb.hinv)

    xi_frame = np.take_along_axis(fb.xi, fb.fc, axis=1)
    xi_low = np.einsum("kbm,km->kb", fb.h, np.conj(xi_frame))

    omega = np.zeros((fb.P.shape[0], n, n, 2 * n + 1), dtype=complex)
    for g in range(n):
        omega[:, :, :, g] = term1[:, g]
        omega[:, :, g, g] -= xi_low
        # omega_beta^alpha(Z_gammabar) = xi^alpha h_{beta gammabar}
        omega[:, :, :, n + g] = fb.h[:, :, g][:, :, None] * xi_frame[:, None, :]
    # slot 2n: d_j xi = -(B^-1 d_j B B^-1)[0, 1:], so -i Z_beta xi^alpha = i Zc (B^-1 d_j B B^-1)[0, 1 + fc]
    dxi = np.take_along_axis(fb.BdBB[:, :, 0, 1:], fb.fc[:, None, :], axis=2)
    omega[:, :, :, 2 * n] = 1j * np.einsum("kbj,kja->kba", fb.Zc, dxi)
    return omega


def _frame_conj_w_derivs(fb):
    """(K, alpha, beta) array of Z_alpha conj(Z_beta^w) = -h_{alpha betabar} / conj(rho_w)."""
    return -fb.h / np.conj(fb.at_w(fb.grad))[:, None, None]


def _frame_levi_derivs(chart, fb):
    """(K, gamma, beta, mu) array of Z_gamma h_{beta mubar} by the chain rule.

    With h = Zc rho'' Zc^*, the ambient jet d_j rho_{l cbar} carries the
    constant columns; the w-columns contribute (Z_gamma Z_beta^w) rho_{w mubar}
    and rho_{beta wbar} Z_gamma conj(Z_mu^w).
    """
    Zc = fb.Zc
    K, n, m = Zc.shape
    if chart.third_jets_vanish:
        Zgh = np.zeros((K, n, n, n), dtype=complex)
    else:
        # Z_gamma^j Z_beta^l jet3[l, c, j] conj(Z_mu^c) as stacked matmuls over j, then l, then c
        ZcT = np.swapaxes(Zc, 1, 2)
        T = fb.jet3.reshape(K, m * m, m) @ ZcT  # [k, (l c), gamma]
        T = T.reshape(K, m, m, n).transpose(0, 3, 2, 1).reshape(K, n * m, m) @ ZcT  # [k, (gamma c), beta]
        T = T.reshape(K, n, m, n).transpose(0, 3, 1, 2).reshape(K, n * n, m) @ np.conj(ZcT)  # [k, (beta gamma), mu]
        Zgh = T.reshape(K, n, n, n).transpose(0, 2, 1, 3)
    # v[k, beta] = Z_beta^l rho_{l wbar}; rho'' is Hermitian, so rho_{w cbar} conj(Z_mu^c) = conj(v_mu)
    v = np.einsum("kbl,kl->kb", Zc, fb.at_w(fb.hess))
    Zgh += fb.dZw[:, :, :, None] * np.conj(v)[:, None, None, :]
    Zgh += v[:, None, :, None] * _frame_conj_w_derivs(fb)[:, :, None, :]
    return Zgh


# ---- curvature and conformal change ------------------------------------------


def _trace_h(hinv, M):
    """h^{alpha betabar} M_{alpha betabar} for stacked matrices."""
    return np.einsum("kab,kba->k", M, hinv)


def _ricci_batch(chart, fb):
    L = _loghess_batch(chart, fb)
    n = chart.n
    ric = (n + 1) * fb.r[:, None, None] * fb.h - L
    R = _real(_trace_h(fb.hinv, ric), 1e-9, "scalar curvature", NotStrictlyPseudoconvex)
    return ric, R, L


def dbar_b_norm2(fb: _FrameBatch, dfull: np.ndarray) -> np.ndarray:
    """|dbar_b f|^2 from the full ambient (1,0)-gradient of a real function.

    ``dfull[k, j, ...]`` holds df/dz^j, any trailing axes running over a family
    of functions; the result ``[k, ...]`` is the Hermitian quadratic form
    conj(g) . h^{-1} . g with g_alpha = Z_alpha f.
    """
    g = np.einsum("kaj,kj...->ka...", fb.Zc, dfull)
    val = np.einsum("ka...,kab,kb...->k...", np.conj(g), fb.hinv, g)
    return np.real(val)


def _conformal_batch(chart, sigma, fb):
    """(K,) transverse curvature of the rescaled defining function e^sigma rho at
    the points of a frame batch, from chart data alone:
    r_hat = e^{-sigma} (r + 2 Re(xi sigma) - |dbar_b sigma|^2)."""
    sval, dsig = eval_arrays([sigma, sym.jets(sigma, chart.m, "h")], fb.P)
    sval = _real(sval, 1e-9, "sigma", NotRealValued)
    xi_sigma = np.einsum("kj,kj->k", fb.xi, dsig)
    dens = dbar_b_norm2(fb, dsig)
    return np.exp(-sval) * (fb.r + 2.0 * np.real(xi_sigma) - dens)
