"""Extrinsic geometry of a holomorphic map F with rho = |F|^2 + psi.

For a holomorphic F: C^{n+1} -> C^N and a pluriharmonic psi, the level set
{rho = 0} carries the contact structure pulled back from the flat metric on
C^N, so F becomes an isometric-on-the-Levi-form CR immersion.  This module
computes the second fundamental form of that immersion by comparing the flat
ambient derivative with the intrinsic connection, together with everything
derived from it: the (1,0)-mean curvature, the torsion, the curvature tensor
through the flat-ambient Gauss identity, and the umbilicity tests that
compare the extrinsic data against the log-determinant Hessian of the chart.

Like the chart module, the private ``*_batch`` helpers are vectorized over
(K, m) point arrays whose points may each pick their own distinguished
coordinate: the frame derivatives of F come by the chain rule from the ambient
jets d_l F^d and d_j d_l F^d.  A single point is a one-row batch.
"""

from __future__ import annotations

import numpy as np

from . import symbolic as sym
from .errors import BadParams, NotPluriharmonic, NotStrictlyPseudoconvex, RankDeficientNormalBasis
from .hypersurface import (
    HypersurfaceChart,
    _connection_batch,
    _frame_batch,
    _frame_conj_w_derivs,
    _real,
    _trace_h,
    eval_arrays,
)

IMMERSION_SV_FLOOR = 1e-8
NORMAL_BASIS_FLOOR = 1e-8
UMBILIC_TOLERANCE = 1e-8


class ImmersionSpec:
    """Holomorphic components F^d plus pluriharmonic psi, with the induced chart.

    ``psi`` defaults to the constant -1, covering the |F|^2 = 1 level sets.
    """

    def __init__(self, F, dim, psi=None, name=""):
        self.F = list(F)
        self.N = len(self.F)
        self.dim = int(dim)
        self.n = self.dim - 1
        self.psi = sym.const(-1) if psi is None else psi
        self.name = name
        if self.N < self.dim:
            raise BadParams(
                f"need at least dim={self.dim} components for an immersion, got {self.N}"
            )
        for d, comp in enumerate(self.F):
            if not sym.is_holomorphic(comp):
                raise NotPluriharmonic(f"component F[{d}] is not holomorphic")
        if not sym.is_pluriharmonic(self.psi):
            raise NotPluriharmonic("psi has a nonvanishing mixed second derivative")
        rho = self.psi
        for comp in self.F:
            rho = sym.add(rho, sym.abs2(comp))
        self.chart = HypersurfaceChart(rho, self.dim, name=name)

    @property
    def linear(self):
        """True when every first jet d_l F^d is a constant node, as for the sphere,
        the ellipsoid and any F = id quadric: dF is then one matrix at every point,
        and every second jet d_j d_l F^d, a derivative of a constant, is the
        constant 0.  Read from the jet array's layout, as
        ``HypersurfaceChart.third_jets_vanish`` is."""
        return sym.jets(self.F, self.dim, "h").values is not None

    def __repr__(self):
        return f"ImmersionSpec(N={self.N}, dim={self.dim}, {self.name or 'custom'})"


def _normal_basis(E):
    """Orthonormal basis (K, N - n, N) of the Hermitian complement of span{E_alpha}.

    The rows are the trailing N - n columns of the complete QR of E^T (K, N, n);
    a diagonal entry |R_jj| below NORMAL_BASIS_FLOOR means the pushed frame
    has lost rank.
    """
    n = E.shape[1]
    Q, R = np.linalg.qr(np.swapaxes(E, 1, 2), mode="complete")
    diag = np.abs(np.diagonal(R[:, :n], axis1=1, axis2=2)).min(axis=1)
    if diag.min() < NORMAL_BASIS_FLOOR:
        i = int(diag.argmin())
        raise RankDeficientNormalBasis(f"pushed-frame QR has |R_jj| = {diag[i]:.3e} at point index {i}")
    return np.swapaxes(Q[:, :, n:], 1, 2)


def _sff_batch(spec: ImmersionSpec, P, w_index=None):
    """Core second-fundamental-form arrays over a (K, m) batch: what a scan reads.

    ``Vraw[k, alpha, gamma] = Z_alpha(Z_gamma F) - omega_gamma^beta(Z_alpha) E_beta`` is the
    raw ambient vector, with E_beta = Z_beta F the pushed frame; ``holo`` reads its
    components in the QR normal basis ``qbasis`` directly, since that basis is orthogonal
    to span{E_beta}, and is then symmetrized.  ``H`` is the ambient (1,0)-mean curvature
    vector, ``Hnorm2`` its squared length and ``II0`` the Levi-raised squared norm of
    ``holo``.  ``Vraw`` is kept for ``_sff_residuals``: a batch is at most a scan block,
    so the (K, n, n, N) array stays small.  The dF and QR gates run here.  A linear F
    (``spec.linear``) has one dF at every point, gated once, and no d2F term.

    Returns (frame_batch, dict of stacked arrays keyed by name).
    """
    fb = _frame_batch(spec.chart, P, w_index=w_index)
    n = spec.n

    linear = spec.linear
    dF, *d2F = eval_arrays([sym.jets(spec.F, spec.dim, p) for p in (("h",) if linear else ("h", "hh"))], P)
    sv = np.linalg.svd(dF[:1] if linear else dF, compute_uv=False)
    if sv[:, -1].min() <= IMMERSION_SV_FLOOR:
        i = int(sv[:, -1].argmin())
        raise RankDeficientNormalBasis(
            f"dF singular value {sv[i, -1]:.3e} at point index {i}: not an immersion"
        )

    E = np.einsum("kaj,kdj->kad", fb.Zc, dF)
    q = _normal_basis(E)

    # Z_alpha (Z_gamma F^d) = Z_alpha^j Z_gamma^l d_j d_l F^d + (Z_alpha Z_gamma^w) d_w F^d
    ZZF = fb.dZw[..., None] * fb.at_w(dF)[:, None, None, :]
    if d2F:
        ZZF += np.einsum("kaj,kgl,kdlj->kagd", fb.Zc, fb.Zc, d2F[0])

    omega = _connection_batch(spec.chart, fb)
    Vraw = ZZF - np.einsum("kgba,kbd->kagd", omega[:, :, :, :n], E)

    holo = np.einsum("kagd,kxd->kagx", Vraw, np.conj(q))
    holo = 0.5 * (holo + np.swapaxes(holo, 1, 2))

    H = -np.einsum("kdj,kj->kd", dF, fb.xi)
    Hnorm2 = np.real(np.einsum("kd,kd->k", H, np.conj(H)))
    II0 = _levi_norm2(holo, fb.hinv)

    return fb, {"dF": dF, "E": E, "qbasis": q, "Vraw": Vraw, "holo": holo, "H": H, "Hnorm2": Hnorm2, "II0": II0}


def _sff_residuals(fb, f):
    """Add the residual and torsion fields to the field dict ``f`` of ``_sff_batch``
    at the same points, and return it.

    ``normality`` is the largest pairing of ``Vraw`` with the pushed frame,
    ``symmetry`` the largest antisymmetric part of ``holo`` before it was
    symmetrized and ``H_tangential`` the largest pairing of ``H`` with the frame.
    ``Ha`` holds the components of ``H`` in the normal basis, ``torsion`` the
    pseudohermitian torsion -i holo . conj(Ha), and ``torsion_ambient`` the same
    torsion by the basis-free pairing -i <Vraw, H>, which the checks compare with it.
    """
    K = fb.P.shape[0]
    Vraw, E, q, H = f["Vraw"], f["E"], f["qbasis"], f["H"]
    t = np.einsum("kagd,kbd->kagb", Vraw, np.conj(E))
    raw = np.einsum("kagd,kxd->kagx", Vraw, np.conj(q))
    Ha = np.einsum("kd,kxd->kx", H, np.conj(q))
    f.update(
        normality=np.abs(t).reshape(K, -1).max(axis=1),
        symmetry=np.abs(raw - np.swapaxes(raw, 1, 2)).reshape(K, -1).max(axis=1),
        H_tangential=np.abs(np.einsum("kd,kbd->kb", H, np.conj(E))).max(axis=1),
        Ha=Ha,
        torsion=-1j * np.einsum("kabx,kx->kab", f["holo"], np.conj(Ha)),
        torsion_ambient=-1j * np.einsum("kabd,kd->kab", Vraw, np.conj(H)),
    )
    return f


def _levi_norm2(T, hinv):
    """Levi-raised squared norm h^{p rbar} h^{q sbar} T_{pq(x)} conj(T_{rs(x)}) of stacked (K, n, n[, A])."""
    T = T.reshape(T.shape[:3] + (-1,))
    return np.real(np.einsum("kpqx,krsx,krp,ksq->k", T, np.conj(T), hinv, hinv))


def _gauss_curvature_batch(holo, Hnorm2, h, hinv):
    """Stacked (riem, ric, scalarR, cm_norm2) of the flat-ambient Gauss identity
    R_{ab~cd~} = |H|^2 (h_{ab~} h_{cd~} + h_{ad~} h_{cb~}) - holo.holo~: ric is the traced form
    (n+1)|H|^2 h - G, and cm_norm2 the squared norm of riem's Chern-Moser (trace-free) part,
    which vanishes on spherical CR manifolds and is 0 for n = 1."""
    K, n = h.shape[:2]
    hh = np.einsum("kab,kcd->kabcd", h, h)
    hh = hh + np.swapaxes(hh, 2, 4)  # h_{ab~} h_{cd~} + h_{ad~} h_{cb~}
    riem = Hnorm2[:, None, None, None, None] * hh - np.einsum("kacx,kbdx->kabcd", holo, np.conj(holo))
    ric = (n + 1) * Hnorm2[:, None, None] * h - _gauss_form(holo, hinv)
    R = _real(_trace_h(hinv, ric), 1e-8, "scalar curvature", NotStrictlyPseudoconvex)
    if n < 2:
        return riem, ric, R, np.zeros(K)
    mix = np.einsum("kab,kcd->kabcd", ric, h)
    mix = mix + mix.transpose(0, 3, 4, 1, 2)  # ric_{ab~} h_{cd~} + ric_{cd~} h_{ab~}
    mix = mix + np.swapaxes(mix, 2, 4)  # and the same with b and d exchanged
    S = riem - mix / (n + 2) + R[:, None, None, None, None] * hh / ((n + 1) * (n + 2))
    cm = np.einsum("kabcd,kpqrs,kpa,kbq,krc,kds->k", S, np.conj(S), hinv, hinv, hinv, hinv)
    return riem, ric, R, np.real(cm)


def _gauss_form(holo, hinv):
    """(1,1)-form side of the traced Gauss identity:
    G_{gamma sigma~} = h^{alpha beta~} holo_{alpha gamma} holo~_{beta sigma}."""
    return np.einsum("kpgx,kqsx,kqp->kgs", holo, np.conj(holo), hinv)


def _mixed_sff_batch(fb, f):
    """Ambient mixed part II(Z_alpha, Z_betabar).

    ``f`` is the field dict ``_sff_batch`` returns for the same points; its
    ``dF`` and pushed frame ``E`` are all this needs, since conj(Z_beta F)
    varies only through conj(Z_beta^w).  Used by the invariant suite to
    cross-check the mean-curvature trace identity against the transverse field.
    """
    ambient = np.einsum("kab,kd->kabd", _frame_conj_w_derivs(fb), np.conj(fb.at_w(f["dF"])))
    xi_frame = np.take_along_axis(fb.xi, fb.fc, axis=1)
    tw = np.einsum("kab,kg,kgd->kabd", fb.h, np.conj(xi_frame), np.conj(f["E"]))
    return ambient - tw
